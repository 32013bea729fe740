import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from leibnizkit.scalars import I, ONE, ZERO, Echo, Scalar, ScalarParseError, as_scalar, parse_scalar
from oracles import OracleQi


def test_parse_real_fraction():
    s = parse_scalar("3/2")
    assert s.re == Fraction(3, 2) and s.im == 0


def test_parse_zero_is_canonical():
    s = parse_scalar("0")
    assert s == ZERO
    assert s.re.denominator == 1


def test_parse_full_form():
    s = parse_scalar("-1/3+2i")
    assert s.re == Fraction(-1, 3) and s.im == 2


@pytest.mark.parametrize("text", ["2i", "-2/3i", "5", "-7/4", "0", "3+1i", "1/2-5/6i"])
def test_round_trip_canonical(text):
    assert parse_scalar(text).render() == text


@pytest.mark.parametrize("bad", ["", "i", "1//2", "2+i", "1 + 2i", "1/2+", "x", "2j"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ScalarParseError):
        parse_scalar(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("1/0")
    assert "1/0" in str(err.value)


def _random_scalar(rng):
    return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def test_field_axioms_randomized():
    rng = random.Random(7)
    for _ in range(150):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == ONE
            assert (b / a) * a == b


def test_render_parse_round_trip_randomized():
    rng = random.Random(11)
    for _ in range(200):
        s = _random_scalar(rng)
        assert parse_scalar(s.render()) == s


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_pure_imaginary_arithmetic():
    i = Scalar(0, 1)
    assert i * i == Scalar(-1)
    assert (ONE + i) * (ONE - i) == Scalar(2)
    assert (ONE / (ONE + i)).render() == "1/2-1/2i"


def test_parse_rejects_overlong_number():
    with pytest.raises(ScalarParseError):
        parse_scalar("1" * 5000)


def _assert_canonical(s):
    assert type(s) is Scalar
    assert all(type(v) is int for v in (s.a, s.b, s.d))
    assert s.d > 0 and gcd(s.a, s.b, s.d) == 1
    for q in (s.re, s.im):
        assert type(q) is Fraction
        assert q.denominator > 0 and gcd(q.numerator, q.denominator) == 1


def _random_parts(rng):
    """(re, im) of a random Gaussian rational: small or up to 2**64,
    real, pure imaginary, a Gaussian integer or general."""
    bound = rng.choice((9, 2 ** 64))

    def frac():
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    kind = rng.randrange(4)
    if kind == 0:
        return frac(), 0
    if kind == 1:
        return 0, frac()
    if kind == 2:
        return rng.randint(-bound, bound), rng.randint(-bound, bound)
    return frac(), frac()


def _plain(rng, bound):
    # an int or Fraction operand
    if rng.random() < 0.5:
        return rng.randint(-bound, bound)
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def _check(op, lhs, rhs, olhs, orhs):
    try:
        want = op(olhs, orhs)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(lhs, rhs)
        return
    got = op(lhs, rhs)
    _assert_canonical(got)
    assert OracleQi.of(got) == want, (op, lhs, rhs)


def test_arithmetic_matches_fraction_pair_oracle():
    rng = random.Random(5)
    for _ in range(400):
        x, y = _random_parts(rng), _random_parts(rng)
        sx, sy = Scalar(*x), Scalar(*y)
        ox, oy = OracleQi(*x), OracleQi(*y)
        _assert_canonical(sx)
        assert OracleQi.of(sx) == ox
        assert OracleQi.of(-sx) == -ox and bool(sx) == bool(ox.re or ox.im)
        k = _plain(rng, rng.choice((9, 2 ** 64)))
        for op in _OPS:
            _check(op, sx, sy, ox, oy)
            _check(op, sx, k, ox, OracleQi(k))
            _check(op, k, sy, OracleQi(k), oy)
    for zero in (ZERO, 0, Fraction(0)):
        _check(operator.truediv, ONE, zero, OracleQi(1), OracleQi(0))


def test_gaussian_divisors_match_oracle():
    rng = random.Random(6)
    for _ in range(200):
        num = Scalar(*_random_parts(rng))
        den = Scalar(rng.randint(-9, 9), rng.choice((-1, 1)) * rng.randint(1, 2 ** 64))
        _check(operator.truediv, num, den, OracleQi.of(num), OracleQi.of(den))
        _check(operator.truediv, ONE, den, OracleQi(1), OracleQi.of(den))


@pytest.mark.parametrize("re, im", [(0.1, 0), (1, 0.5), (1.0, 0), ("1/3", 0), (0, "2"), (None, 0), (1j, 0)])
def test_constructor_rejects_what_as_scalar_rejects(re, im):
    # a float is not rounded to a dyadic Fraction and a str is not parsed
    with pytest.raises(TypeError):
        as_scalar(im if isinstance(re, (int, Fraction)) else re)
    with pytest.raises(TypeError):
        Scalar(re, im)


def test_mixed_operands_both_sides():
    s = Scalar(Fraction(1, 3), 2)
    assert 2 * s == s * 2 == Scalar(Fraction(2, 3), 4)
    assert 1 - s == Scalar(Fraction(2, 3), -2)
    assert Fraction(1, 3) + s == Scalar(Fraction(2, 3), 2)
    assert (ONE / s) * s == ONE and (1 / s) * s == ONE
    assert s / Fraction(1, 3) == Scalar(1, 6)
    for v in (2 * s, 1 - s, ONE / s, Fraction(1, 3) + s, s / Fraction(1, 3)):
        _assert_canonical(v)


def test_equal_values_built_differently_are_equal_and_hash_equal():
    half = [Scalar(Fraction(2, 4)), ONE / 2, parse_scalar("2/4"), Scalar(Fraction(1, 2), 0),
            ONE - Scalar(Fraction(1, 2)), as_scalar(Fraction(3, 6))]
    mixed = [parse_scalar("2/4+6/8i"), Scalar(Fraction(1, 2), Fraction(3, 4)),
             (2 + 3 * I) / 4, (ONE + I) * (ONE + I) * Scalar(Fraction(3, 8)) + ONE / 2]
    for group in (half, mixed):
        for v in group:
            _assert_canonical(v)
            assert v == group[0]
            assert hash(v) == hash(group[0])
    assert hash(parse_scalar("6/2")) == hash(Scalar(3)) == hash(3)


def test_hash_agrees_with_equality_against_ints():
    for k in (-7, -1, 0, 1, 3, 2 ** 70):
        for s in (Scalar(k), Scalar(Fraction(2 * k, 2)), (Scalar(k, 1) - I), parse_scalar(str(k))):
            assert s == k and hash(s) == hash(k)
            assert s in {k} and k in {s}
            assert {k: "x"}[s] == "x"
    assert Scalar(3, 1) not in {3} and Scalar(Fraction(3, 2)) not in {1, 2}


def test_equality_against_ints():
    assert Scalar(3) == 3 and 3 == Scalar(3)
    assert Scalar(Fraction(6, 2)) == 3
    assert Scalar(3, 1) != 3 and Scalar(0, 3) != 0
    assert Scalar(Fraction(3, 2)) != 3 and Scalar(Fraction(3, 2)) != 1
    assert ZERO == 0 and not ZERO


def test_echo_shows_short_values_exactly_and_cuts_long_ones():
    for value in ("a'b\\c", "x" * 58, 12, -10 ** 50, [1, [2, "c"]], {"k": None}, True, 1.5):
        assert "%r" % Echo(value) == repr(value)
    assert "'%s'" % Echo("a'b") == "'a'b'"
    assert "%s" % Echo("y" * 60) == "y" * 60
    deep = []
    for _ in range(900):
        deep = [deep]
    for text in ("%s" % Echo("y" * 10 ** 5), "%r" % Echo("y" * 10 ** 5), "%r" % Echo(10 ** 4000),
                 "%r" % Echo(deep), "%r" % Echo(list(range(10 ** 4)))):
        assert len(text) <= 80
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("1/" + "z" * 10 ** 5)
    assert len(str(err.value)) <= 80
