"""Property tests of the scalar text grammar, of the read-out of integer
rows as Scalars and of the Gaussian multiply-accumulate on integer rows
(skipped without hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from oracles import dense_vec

from leibnizkit.linalg import add_multiple, gaussian_row, scalar_vector
from leibnizkit.scalars import ZERO, Scalar, ScalarParseError, parse_scalar

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


@st.composite
def _sparse_vectors(draw):
    """(n, {index: Scalar}) with n = 0..9: Gaussian, negative and zero entries."""
    n = draw(st.integers(0, 9))
    entry = st.one_of(st.builds(Scalar, st.fractions(max_denominator=12), st.fractions(max_denominator=12)),
                      st.integers(-5, 5).map(Scalar), _gaussian)
    return n, draw(st.dictionaries(st.integers(0, n - 1), entry, max_size=n)) if n else {}


@FIXED
@given(_sparse_vectors())
@example((0, {}))
@example((3, {}))
@example((2, {0: Scalar(-1, -1), 1: Scalar(0)}))
def test_scalar_vector_inverts_gaussian_row(case):
    n, row = case
    d, terms = gaussian_row(row)
    vec = scalar_vector(terms.items(), d, n)
    assert vec == [row.get(c, ZERO) for c in range(n)]
    assert all(type(x) is Scalar for x in vec)
    assert gaussian_row(dict(enumerate(vec))) == (d, terms)


_nonzero = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(lambda v: v != (0, 0))
_nonzero_int = st.integers(-4, 4).filter(bool)
# add_multiple's real path (one, minus one, any nonzero real) and its
# general path (pure imaginary and general Gaussian coefficients)
_coefficients = st.one_of(st.just((1, 0)), st.just((-1, 0)),
                          _nonzero_int.map(lambda a: (a, 0)),
                          _nonzero_int.map(lambda b: (0, b)),
                          st.tuples(_nonzero_int, _nonzero_int))


@st.composite
def _accumulations(draw):
    """(n, out, (ar, ai), terms) with n = 0..7 and nonzero Gaussian entries;
    an entry of out is often -(ar + ai*i) times the term at its index, so
    that the sum cancels there."""
    n = draw(st.integers(0, 7))
    indices = st.integers(0, max(n - 1, 0))
    ar, ai = draw(_coefficients)
    terms = draw(st.dictionaries(indices, _nonzero, max_size=n)) if n else {}
    out = {}
    for c in (draw(st.lists(indices, max_size=n, unique=True)) if n else []):
        if c in terms and draw(st.booleans()):
            x, y = terms[c]
            out[c] = (-(ar * x - ai * y), -(ar * y + ai * x))
        else:
            out[c] = draw(_nonzero)
    return n, out, (ar, ai), terms


def _dense(row, n):
    return dense_vec({c: Scalar(re, im) for c, (re, im) in row.items()}, n)


@FIXED
@given(_accumulations())
@example((0, {}, (1, 0), {}))
@example((3, {}, (-2, 0), {0: (1, -1), 2: (0, 3)}))
@example((3, {1: (2, 2)}, (0, -1), {}))
@example((3, {0: (1, 2), 2: (-3, 1)}, (0, 1), {0: (-2, 1), 2: (-1, -3)}))   # cancels to {}
@example((3, {0: (-1, 2), 2: (3, 0)}, (1, 0), {0: (1, -2), 2: (-3, 0)}))    # one, cancels to {}
@example((3, {0: (-3, 6), 1: (0, 3)}, (3, 0), {0: (1, -2), 1: (0, -1)}))    # real, cancels to {}
def test_add_multiple_matches_scalar_arithmetic_and_keeps_no_zero(case):
    n, out, (ar, ai), terms = case
    want = [o + Scalar(ar, ai) * t for o, t in zip(_dense(out, n), _dense(terms, n))]
    once = dict(out)
    add_multiple(out, ar, ai, terms.items())
    assert _dense(out, n) == want
    assert all(re or im for re, im in out.values())
    assert set(out) == {c for c, v in enumerate(want) if v}
    assert all(type(v) is tuple and len(v) == 2 and type(v[0]) is type(v[1]) is int
               for v in out.values())
    # terms as a one-shot iterator: the same sum, so it is walked once
    add_multiple(once, ar, ai, (t for t in terms.items()))
    assert once == out

