"""Property tests of the scalar text grammar (skipped without hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from leibnizkit.scalars import Scalar, ScalarParseError, parse_scalar

# derandomized and without an example database: the same examples every run
FIXED = settings(derandomize=True, database=None, max_examples=200, deadline=None)

_parts = st.one_of(st.fractions(max_denominator=12), st.fractions(), st.integers())
_gaussian = st.builds(Scalar, _parts, _parts)
_near_grammar = st.text(alphabet="0123456789/+-i .", max_size=14)


@FIXED
@given(_gaussian)
def test_render_parse_round_trip(s):
    text = s.render()
    back = parse_scalar(text)
    assert back == s
    assert back.render() == text


@FIXED
@given(st.one_of(st.text(max_size=20), _near_grammar))
def test_any_text_parses_or_raises_parse_error(text):
    try:
        s = parse_scalar(text)
    except ScalarParseError:
        return
    assert parse_scalar(s.render()) == s


@FIXED
@given(_gaussian, _gaussian, st.integers())
def test_hash_agrees_with_equality(s, t, k):
    # values reached two ways are equal and hash equal; an integral value
    # hashes as its int, so it finds the int in a set and vice versa
    assert hash(parse_scalar(s.render())) == hash(s)
    if t:
        assert (s * t) / t == s and hash((s * t) / t) == hash(s)
    integral = (Scalar(k) + s) - s
    assert integral == k and hash(integral) == hash(k)
    assert integral in {k} and k in {integral}
