"""Property test of the gradation search's offset bound (skipped without
hypothesis): with a product [e_i, e_j] that has a nonzero e_k coordinate,
a maximum-length gradation on [a, a + d) forces 2 - 2d <= a <= d - 1, so
gradations._search_interval finds nothing at any offset outside."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from leibnizkit import gradations
from leibnizkit.core import from_terms
from leibnizkit.scalars import Scalar


@st.composite
def tables(draw):
    """A table on e0..e{d-1}, d = 1..6, with one to six single-term products."""
    d = draw(st.integers(1, 6))
    index = st.integers(0, d - 1)
    pairs = draw(st.dictionaries(st.tuples(index, index), index, min_size=1, max_size=6))
    coefficient = st.sampled_from((Scalar(1), Scalar(-1), Scalar(2), Scalar(1, 1)))
    return from_terms(["e%d" % t for t in range(d)],
                      [(i, j, k, draw(coefficient)) for (i, j), k in sorted(pairs.items())])


@settings(max_examples=300, deadline=None)
@given(tables(), st.data())
def test_no_interval_outside_the_bound_succeeds(a, data):
    d = a.dim
    forms = gradations._homogeneity_forms(a)
    if forms is None:
        return
    assert forms   # the table has a product
    triggers = gradations._triggers(forms, d)
    below = data.draw(st.integers(-6 * d, 1 - 2 * d))
    above = data.draw(st.integers(d, 6 * d))
    for offset in (below, above, 1 - 2 * d, d):
        assert gradations._search_interval(triggers, d, offset) is None
