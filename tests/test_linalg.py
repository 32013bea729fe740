import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import alg, random_invertible
from oracles import OracleEchelon, add_row, in_span, inverse, oracle_matrix_rank, oracle_partition, oracle_rank, unit

from leibnizkit.core import right_operator
from leibnizkit.linalg import (
    Matrix,
    NotNilpotentError,
    SingularMatrixError,
    SparseEchelon,
    gaussian_inverse,
    image_chain,
    jordan_type,
    kernel_basis,
    nilpotent_partition,
    rank,
)
from leibnizkit.scalars import ONE, ZERO, Scalar, from_gaussian


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zero(3, 3)) == 0


def test_rank_right_operator_of_m7():
    # R_{y1} of M(7): the chain hits y2..y5 only, so the rank is 4; the
    # product [y1, y6] = y7 belongs to R_{y6}, not to R_{y1}
    m7 = alg("M", 7)
    op = right_operator(m7, unit(8, 0))
    assert oracle_matrix_rank(op) == 4
    assert rank(op) == 4


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(4)) == []


def test_kernel_zero_matrix():
    vecs = kernel_basis(Matrix.zero(2, 2))
    assert vecs == [[ONE, ZERO], [ZERO, ONE]]


def test_kernel_forced_direction():
    m = Matrix(2, 2, [[1, 1], [0, 0]])
    (v,) = kernel_basis(m)
    assert v[0] * Scalar(-1) == v[1] and any(v)


def test_rank_nullity_randomized():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix(rows, cols, [[Scalar(rng.randint(-2, 2)) for _ in range(cols)]
                                for _ in range(rows)])
        assert rank(m) + len(kernel_basis(m)) == cols
        assert rank(m) == oracle_matrix_rank(m)


def test_partition_zero_matrix():
    assert nilpotent_partition(Matrix.zero(3, 3)) == (1, 1, 1)


def test_partition_single_jordan_block():
    j = Matrix.zero(4, 4)
    for i in range(3):
        j.data[i][i + 1] = ONE
    assert nilpotent_partition(j) == (4,)


def test_partition_right_operator_of_m7():
    # fixed by the rank-chain oracle: ranks of powers are 8,4,3,2,1,0
    m7 = alg("M", 7)
    op = right_operator(m7, unit(8, 0))
    assert oracle_partition(op) == (5, 1, 1, 1)
    assert nilpotent_partition(op) == (5, 1, 1, 1)


def test_partition_rejects_non_square():
    with pytest.raises(NotNilpotentError):
        nilpotent_partition(Matrix.zero(2, 3))


def test_partition_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError) as info:
        nilpotent_partition(Matrix.identity(3))
    assert str(info.value) == "matrix is not nilpotent: rank(m^3) = 3"


def test_partition_of_the_empty_matrix():
    assert nilpotent_partition(Matrix.zero(0, 0)) == ()
    assert jordan_type([]) == ()
    assert [list(level) for level in image_chain(0, ())] == [[], []]


def test_image_chain_of_one_jordan_block():
    # e0 -> e1 -> e2 -> 0: each image drops the leading unit vector
    block = {0: ((1, (1, 0)),), 1: ((2, (1, 0)),)}
    assert [list(level) for level in image_chain(3, (block,))] == [
        [{0: ONE}, {1: ONE}, {2: ONE}], [{1: ONE}, {2: ONE}], [{2: ONE}], []]
    assert [list(level) for level in image_chain(3, ())] == [[{0: ONE}, {1: ONE}, {2: ONE}], []]
    assert jordan_type([{1: (1, 0)}, {2: (1, 0)}, {}]) == (3,)


def test_image_chain_sums_the_operators_images():
    # two operators whose images alone have rank 1 span rank 2 together
    first, second = {0: ((1, (1, 0)),)}, {0: ((2, (0, 1)),)}
    ranks = [len(level) for level in image_chain(3, (first, second))]
    assert ranks == [3, 2, 0]


def test_image_chain_from_a_given_level_leaves_it_unchanged():
    # started at span(e1, e2) the block's chain drops one unit vector a level
    block = {0: ((1, (1, 0)),), 1: ((2, (1, 0)),)}
    start = SparseEchelon(3)
    start.add_gaussian({1: (2, 0), 2: (0, 2)})
    start.add_gaussian({2: (1, 0)})
    rows = start.gaussian_rows()
    levels = list(image_chain(3, (block,), start))
    assert levels[0] is start and start.gaussian_rows() == rows == (((1, (1, 0)),), ((2, (1, 0)),))
    assert [list(level) for level in levels[1:]] == [[{2: ONE}], []]


def test_gaussian_rows_are_the_rref_times_a_positive_lead():
    ech = SparseEchelon(4)
    ech.add_gaussian({3: (1, 0), 1: (0, 2)})
    ech.add_gaussian({0: (3, 0), 2: (1, 1)})
    assert ech.gaussian_rows() == (((0, (3, 0)), (2, (1, 1))), ((1, (2, 0)), (3, (0, -1))))
    assert [{c: from_gaussian(x, y, row[0][1][0]) for c, (x, y) in row} for row in ech.gaussian_rows()] \
        == list(ech)


def test_a_copy_grows_on_its_own():
    # add_gaussian back-substitutes into the pivot rows in place: the
    # original must keep its rows and column index when its copy grows
    ech = SparseEchelon(3)
    ech.add_gaussian({0: (1, 0), 2: (1, 0)})
    ech.add_gaussian({1: (1, 0), 2: (2, 0)})
    rows, index = ech.gaussian_rows(), {c: set(p) for c, p in ech._index.items()}
    grown = ech.copy()
    assert grown.add_gaussian({2: (1, 0)})
    assert grown.gaussian_rows() == (((0, (1, 0)),), ((1, (1, 0)),), ((2, (1, 0)),))
    assert ech.gaussian_rows() == rows and ech._index == index and len(ech) == 2
    assert not ech.contains_gaussian({2: (1, 0)})


def test_matrix_of_scalars_takes_the_entries_as_they_are():
    flat = [Scalar(c, r) for r in range(2) for c in range(3)]
    m = Matrix._of_scalars(2, 3, flat)
    assert m == Matrix(2, 3, flat) and m.data == [flat[:3], flat[3:]]
    assert all(type(v) is Scalar for v in m.flat())


def test_partition_shape_randomized():
    # trials 0-39: real strictly upper-triangular nilpotents; from 40 on,
    # trial % 4 picks: 0 real, 1 Gaussian, 2 real conjugate, 3 Gaussian conjugate
    rng = random.Random(5)
    for trial in range(80):
        kind = trial % 4 if trial >= 40 else 0
        n = rng.randint(2, 7)
        m = Matrix.zero(n, n)
        for r in range(n):
            for c in range(r + 1, n):
                m.data[r][c] = Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if kind % 2 else 0)
        if kind >= 2:
            # a dense conjugate has the same Jordan type but no triangular shape
            p = random_invertible(rng, n)
            m = inverse(p) * m * p
        parts = nilpotent_partition(m)
        assert sum(parts) == n
        assert all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))
        assert parts == oracle_partition(m)
        if trial >= 40 and kind == 0:
            # one nonzero diagonal entry: an eigenvalue != 0, so not nilpotent
            d = rng.randrange(n)
            m.data[d][d] = Scalar(rng.choice((-2, -1, 1, 2)))
            with pytest.raises(NotNilpotentError):
                nilpotent_partition(m)


def _random_rows(rng, ncols):
    """Sparse Q(i) rows with explicit zero entries, some of them combinations of earlier rows."""
    rows = []
    for _ in range(rng.randint(1, 10)):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            s = Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
            t = Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
            rows.append({c: s * a.get(c, ZERO) + t * b.get(c, ZERO) for c in range(ncols)})
        else:
            cols = rng.sample(range(ncols), rng.randint(0, ncols))
            rows.append({c: Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for c in cols})
            if cols and rng.random() < 0.5:
                rows[-1][rng.choice(cols)] = ZERO
    return rows


def test_echelon_rref_invariant_randomized():
    rng = random.Random(17)
    for _ in range(60):
        ncols = rng.randint(1, 9)
        rows = _random_rows(rng, ncols)
        ech = SparseEchelon(ncols)
        for row in rows:
            before = dict(row)
            add_row(ech, row)
            assert row == before
            for pc, prow in zip(sorted(ech._rows), ech):
                assert prow[pc] == ONE and min(prow) == pc and all(prow.values())
                assert not any(c != pc and c in ech._rows for c in prow)
        assert all(in_span(ech, row) for row in rows)
        assert len(ech) == oracle_rank([[row.get(c, ZERO) for c in range(ncols)] for row in rows])
        basis = ech.basis_rows()
        for _ in range(3):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            other = SparseEchelon(ncols)
            for row in shuffled:
                add_row(other, row)
            assert other.basis_rows() == basis


def _gaussian_rational(rng):
    """A random Q(i) value with small denominators: zero about a fifth of the time."""
    if rng.random() < 0.2:
        return ZERO
    return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.6 else 0)


def _rational_rows(rng, ncols, nrows):
    """Sparse Gaussian-rational rows, a third of them combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.random() < 0.35:
            a, b = rng.sample(rows, 2)
            s, t = _gaussian_rational(rng), _gaussian_rational(rng)
            rows.append({c: s * a.get(c, ZERO) + t * b.get(c, ZERO) for c in range(ncols)})
        else:
            rows.append({c: _gaussian_rational(rng) for c in rng.sample(range(ncols), rng.randint(0, ncols))})
    return rows


def test_echelon_matches_the_scalar_oracle_engine():
    # the fraction-free Gaussian-integer engine against the plain Scalar
    # RREF it replaced: the same rank, rows, kernel and membership
    rng = random.Random(2026)
    for _ in range(120):
        ncols = rng.randint(1, 12)
        rows = _rational_rows(rng, ncols, rng.randint(1, 14))
        ech, oracle = SparseEchelon(ncols), OracleEchelon(ncols)
        for row in rows:
            assert add_row(ech, row) == oracle.add(row)
        assert len(ech) == oracle.rank
        for pc, row in ech._rows.items():
            # the stored form: a positive int lead and no common factor
            assert min(row) == pc and row[pc][0] > 0 and row[pc][1] == 0
            assert gcd(*[t for v in row.values() for t in v]) == 1
        assert dict(zip(sorted(ech._rows), ech)) == oracle.pivot_rows
        assert ech.basis_rows() == oracle.basis_rows()
        assert [dict(r) for r in ech] == [oracle.pivot_rows[pc] for pc in sorted(oracle.pivot_rows)]
        assert ech.kernel_basis() == oracle.kernel_basis()
        for probe in _rational_rows(rng, ncols, 6) + rows:
            assert in_span(ech, probe) == oracle.contains(probe)


def test_echelon_takes_gaussian_integer_rows():
    # add_gaussian(d * row as int pairs) spans what the row cleared by
    # gaussian_row spans, for any multiple d of its denominators
    rng = random.Random(8)
    for _ in range(40):
        ncols = rng.randint(1, 9)
        rows = _rational_rows(rng, ncols, rng.randint(1, 10))
        ech, scaled = SparseEchelon(ncols), SparseEchelon(ncols)
        for row in rows:
            d = rng.choice((1, 2, 6)) * lcm(*[v.d for v in row.values()])
            pairs = {c: (v.a * d // v.d, v.b * d // v.d) for c, v in row.items()}
            assert scaled.add_gaussian(pairs) == add_row(ech, row)
        assert scaled.basis_rows() == ech.basis_rows()


def test_inverse_round_trip_on_dense_rational_matrices():
    rng = random.Random(31)
    for trial in range(30):
        n = rng.randint(1, 6)
        # odd trials Gaussian rationals, even trials plain rationals
        entry = (lambda: _gaussian_rational(rng)) if trial % 2 else (
            lambda: Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        while True:
            m = Matrix(n, n, [[entry() for _ in range(n)] for _ in range(n)])
            if oracle_matrix_rank(m) == n:
                break
        inv = inverse(m)
        assert m * inv == Matrix.identity(n) == inv * m
        assert inverse(inv) == m


def test_gaussian_inverse_is_the_cleared_inverse():
    # on the Gaussian-integer columns of M = d_m * m: d is the least common
    # denominator of M^-1, as gaussian_columns finds it on the oracle inverse
    rng = random.Random(47)
    for trial in range(30):
        n = rng.randint(0, 6)
        entry = (lambda: _gaussian_rational(rng)) if trial % 2 else (lambda: Scalar(rng.randint(-2, 2)))
        while True:
            m = Matrix(n, n, [[entry() for _ in range(n)] for _ in range(n)])
            if oracle_matrix_rank(m) == n:
                break
        d_m, cols = m.gaussian_columns()
        assert gaussian_inverse(cols) == inverse(m.scale(d_m)).gaussian_columns()
    with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
        gaussian_inverse(Matrix(3, 3, [1, 2, 0, 0, 0, 1, 3, 6, 5]).gaussian_columns()[1])


def test_triangular_inverse_is_the_cleared_inverse():
    # columns with distinct pivots, each a nonzero positive, negative or
    # Gaussian integer at its lowest row and Gaussian rationals below it,
    # in a shuffled order: the same (d, columns) as the oracle inverse
    # cleared.  A zero at one pivot leaves its column zero or pivoted where
    # another column is, and both sides find the matrix singular.
    rng = random.Random(53)
    kinds = set()
    for trial in range(60):
        n = rng.randint(0, 7)
        pivots = rng.sample(range(n), n)
        rows = [[ZERO] * n for _ in range(n)]
        for c, r in enumerate(pivots):
            rows[r][c] = rng.choice((Scalar(rng.randint(1, 4)), Scalar(-rng.randint(1, 4)),
                                     Scalar(rng.randint(-3, 3), rng.choice((-2, -1, 1, 2)))))
            for below in range(r + 1, n):
                if rng.random() < 0.6:
                    rows[below][c] = _gaussian_rational(rng) if trial % 2 else Scalar(rng.randint(-2, 2))
        m = Matrix(n, n, rows)
        d_m, cols = m.gaussian_columns()
        assert gaussian_inverse(cols) == inverse(m.scale(d_m)).gaussian_columns()
        if n:
            c = rng.randrange(n)
            m.data[pivots[c]][c] = ZERO
            cols = m.gaussian_columns()[1]
            kinds.add("repeated pivot" if cols[c] else "zero column")
            for invert in (lambda: gaussian_inverse(cols), lambda: inverse(m)):
                with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                    invert()
    assert kinds == {"repeated pivot", "zero column"}


def test_inverse_round_trip():
    rng = random.Random(9)
    for _ in range(20):
        m = random_invertible(rng, 4)
        assert m * inverse(m) == Matrix.identity(4)


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.zero(3, 3))
    # column 1 is twice column 0: the RREF of [m | I] has no pivot in column 1
    with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
        inverse(Matrix(3, 3, [1, 2, 0, 0, 0, 1, 3, 6, 5]))
    with pytest.raises(SingularMatrixError, match="^only square matrices can be inverted$"):
        inverse(Matrix.zero(2, 3))
