"""Property tests of the three file loaders (skipped without hypothesis).

Every JSON text, valid or not, must give a value or a FormatError: never
another exception, which the CLI would report as a traceback.  The
documents are drawn near the algebra, weights and certificate schemas so
that most of them get past the first field check.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from leibnizkit.core import Algebra, FormatError, dumps, loads, to_json_dict
from leibnizkit.gradations import WeightAssignment, weights_dumps, weights_loads
from leibnizkit.iso import IsoCertificate, certificate_loads
from leibnizkit.scalars import Scalar

# derandomized and without an example database: the same examples every run
FIXED = settings(derandomize=True, database=None, max_examples=100, deadline=None)

# the two inputs json.loads rejects with other than a JSONDecodeError
DEEP = "[" * 100000
LONG_INT = '{"dim": %s, "basis": []}' % ("1" * 5000)

_labels = st.sampled_from(["a", "b", "c"])
_good_scalar = st.sampled_from(["0", "1", "-1/2", "2i", "1+1i", "3/4-1/2i"])
_scalar_text = st.one_of(_good_scalar, st.sampled_from(["1/0", "x", "", "1.5"]))
_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
                  st.floats(allow_nan=False), _labels, _scalar_text, st.text(max_size=3))
_keys = st.sampled_from(["dim", "basis", "products", "left", "right", "result",
                         "weights", "source", "target", "map", "a", "b"])
_any = st.recursive(_leaf, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(_keys, inner, max_size=5), max_leaves=16)


def _mostly(good, bad):
    """good seven draws in eight, else bad: most documents pass most checks."""
    return st.integers(0, 7).flatmap(lambda k: bad if k == 7 else good)


_small = st.sampled_from([Scalar(0), Scalar(1), Scalar(-2, 3), Scalar(Fraction(1, 2), Fraction(-5, 6)),
                         Scalar(0, Fraction(7, 3)), Scalar(10 ** 30, -1)])


@st.composite
def _algebras(draw):
    labels = draw(st.lists(st.text(min_size=1, max_size=4), max_size=4, unique=True))
    n = len(labels)
    keys = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    gamma = draw(st.dictionaries(keys, st.lists(_small, min_size=n, max_size=n).map(tuple),
                                 max_size=n * n)) if n else {}
    return Algebra(labels, gamma)


def _product(labels):
    label = _mostly(st.sampled_from(labels), _any) if labels else _any
    term = _mostly(st.tuples(label, _mostly(_scalar_text, _any)).map(list), _any)
    return _mostly(st.fixed_dictionaries({"left": label, "right": label,
                                          "result": _mostly(st.lists(term, max_size=3), _any)}),
                   _any)


@st.composite
def _algebra_doc(draw):
    labels = draw(_mostly(st.lists(_labels, max_size=3, unique=True),
                          st.one_of(st.lists(_labels, max_size=4), _any)))
    names = [lb for lb in labels if isinstance(lb, str)] if isinstance(labels, list) else []
    doc = {"dim": draw(_mostly(st.just(len(labels) if isinstance(labels, list) else 0), _leaf)),
           "basis": labels,
           "products": draw(_mostly(st.lists(_product(names), max_size=4), _any))}
    if draw(st.integers(0, 7)) == 7:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return draw(_mostly(st.just(doc), _any))


@st.composite
def _certificate_doc(draw):
    source = draw(_mostly(_algebras().map(to_json_dict), _algebra_doc()))
    target = draw(_mostly(st.just(source), _algebra_doc()))
    basis = source.get("basis") if isinstance(source, dict) else None
    n = len(basis) if isinstance(basis, list) else 0
    def square(entry):
        return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)

    matrix = draw(_mostly(square(st.one_of(_good_scalar, st.integers(-2, 2))),
                          st.one_of(square(_mostly(_scalar_text, _leaf)), _any)))
    return draw(_mostly(st.just({"source": source, "target": target, "map": matrix}), _any))


@st.composite
def _weights_doc(draw):
    table = {lb: draw(_mostly(st.integers(-3, 3), _leaf)) for lb in ("a", "b", "c")}
    if draw(st.integers(0, 7)) == 7:
        del table[draw(_labels)]
    if draw(st.integers(0, 7)) == 7:
        table[draw(st.text(max_size=2))] = draw(_leaf)
    return draw(_mostly(st.just({"weights": draw(_mostly(st.just(table), _any))}), _any))


def _value_or_format_error(load, text):
    try:
        return load(text)
    except FormatError:
        return None


@FIXED
@given(_algebra_doc().map(json.dumps))
@example(DEEP)
@example(LONG_INT)
def test_algebra_loader_gives_value_or_format_error(text):
    a = _value_or_format_error(loads, text)
    if a is not None:
        assert isinstance(a, Algebra)
        assert loads(dumps(a)) == a


@FIXED
@given(_weights_doc().map(json.dumps))
@example(DEEP)
@example(LONG_INT)
def test_weights_loader_gives_value_or_format_error(text):
    a = Algebra(["a", "b", "c"], {})
    w = _value_or_format_error(lambda t: weights_loads(t, a), text)
    if w is not None:
        assert isinstance(w, WeightAssignment)
        assert weights_loads(weights_dumps(a, w), a) == w


@FIXED
@given(_certificate_doc().map(json.dumps))
@example(DEEP)
@example(LONG_INT)
def test_certificate_loader_gives_value_or_format_error(text):
    cert = _value_or_format_error(certificate_loads, text)
    if cert is not None:
        assert isinstance(cert, IsoCertificate)


@FIXED
@given(_algebras())
def test_dumps_is_a_fixed_point_of_loads(a):
    text = dumps(a)
    assert loads(text) == a
    assert dumps(loads(text)) == text
