"""Property test of linalg.gaussian_inverse against the dense Scalar
inverse of tests/oracles.py (skipped without hypothesis).  Half the
matrices are lower triangular with their columns shuffled, so both the
substitution and the elimination are drawn; a triangular matrix with a zero
on its diagonal is singular and goes to the elimination."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from oracles import inverse

from leibnizkit.linalg import Matrix, SingularMatrixError, gaussian_inverse
from leibnizkit.scalars import Scalar

# derandomized and without an example database: the same examples every run
FIXED = settings(derandomize=True, database=None, max_examples=300, deadline=None)

_entry = st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2))


@st.composite
def _matrices(draw):
    """A square matrix of Gaussian integers, n = 0..7: dense, or lower
    triangular with its columns permuted."""
    n = draw(st.integers(0, 7))
    rows = [[draw(_entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        rows = [[rows[r][c] if r >= c else Scalar(0) for c in order] for r in range(n)]
    return Matrix(n, n, rows)


@FIXED
@given(_matrices())
def test_gaussian_inverse_is_the_cleared_oracle_inverse_or_both_are_singular(m):
    cols = m.gaussian_columns()[1]
    try:
        want = inverse(m).gaussian_columns()
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
            gaussian_inverse(cols)
        return
    assert gaussian_inverse(cols) == want
