"""Exact scalars: Gaussian rationals (a + b*i)/d on plain Python ints.

Every quantity the package hands out (structure constants, matrix entries,
certificate maps) is a Scalar, so rank and dimension counts are exact.
An Algebra stores its structure constants as Gaussian integers over a
common denominator, and the hot loops of the elimination, the residual
and the Der system run fraction-free on such (re, im) pairs of plain ints:
common_denominator and gaussian_parts clear the denominators of some
Scalars, and from_gaussian makes a Scalar of a stored or computed value.
A Scalar holds three ints in canonical form, d > 0 and gcd(a, b, d) == 1,
so equal values have equal fields; re and im are derived Fractions.
The text grammar accepted by parse_scalar is the interchange format used
by all file formats and CLI output:

    [-] frac [ (+|-) frac "i" ]   |   [-] frac "i"

with frac = int or int/posint, e.g. "3/2", "0", "-1/3+2i", "2i".
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from math import gcd, lcm


class ScalarParseError(ValueError):
    """Text did not match the scalar grammar."""


_ECHO = reprlib.Repr()
_ECHO.maxlevel = 3
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 60
_ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxdict = 10


class Echo:
    """An input value quoted in an error message, cut when long.

    Format it with %r for its repr, or with %s for a string as itself.  A
    short value prints exactly as the bare value would.  A longer one is
    cut: a string or number past 60 characters, a list or object past 10
    items, nesting past 3 levels.  So one bad field cannot make an error
    line as long as the input.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return _ECHO.repr(self.value)

    def __str__(self):
        text = self.value
        return text if len(text) <= _ECHO.maxstring else text[:_ECHO.maxstring - 3] + "..."


_new = object.__new__


def _reduced(a, b, d):
    # canonical form of (a + b*i)/d for d > 0
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    s = _new(Scalar)
    s.a, s.b, s.d = a, b, d
    return s


class Scalar:
    """(a + b*i)/d in Q(i): three ints, d > 0 and gcd(a, b, d) == 1.

    Scalar(re, im) takes ints or Fractions; re and im are reduced Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        d = 1
        if type(re) is not int or type(im) is not int:
            re, im = Fraction(re), Fraction(im)
            d = lcm(re.denominator, im.denominator)  # canonical for reduced parts
            re, im = int(re * d), int(im * d)
        self.a, self.b, self.d = re, im, d

    re = property(lambda self: Fraction(self.a, self.d), doc="real part, a reduced Fraction")
    im = property(lambda self: Fraction(self.b, self.d), doc="imaginary part, a reduced Fraction")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        return as_scalar(other).__sub__(self)

    def __neg__(self):
        return _reduced(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = as_scalar(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        if b or e:
            return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)
        return _reduced(a * c, 0, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # multiply by the conjugate (c - e*i)*n of other = (c + e*i)/n over c^2 + e^2
        if type(other) is not Scalar:
            other = as_scalar(other)
        a, b, c, e, n = self.a, self.b, other.a, other.b, other.d
        if not (c or e):
            raise ZeroDivisionError("scalar division by zero")
        return _reduced((a * c + b * e) * n, (b * c - a * e) * n, self.d * (c * c + e * e))

    def __rtruediv__(self, other):
        return as_scalar(other).__truediv__(self)

    def inverse(self):
        return ONE / self

    # -- structure -----------------------------------------------------

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.d == 1 and not self.b and self.a == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # equal values have equal canonical fields; an integer hashes as the int
        if self.d == 1 and not self.b:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return "Scalar(%s)" % self.render()

    def __str__(self):
        return self.render()

    def render(self):
        """Canonical text form; parse_scalar(render()) round-trips."""
        if not self.b:
            return _render_frac(self.a, self.d)
        if not self.a:
            return _render_frac(self.b, self.d) + "i"
        sign = "+" if self.b > 0 else "-"
        return _render_frac(self.a, self.d) + sign + _render_frac(abs(self.b), self.d) + "i"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def common_denominator(values):
    """The lcm of the denominators of some Scalars; 1 for none."""
    return lcm(*[v.d for v in values])


def gaussian_parts(value, d):
    """d * value as an (re, im) pair of ints; d must be a multiple of value's denominator."""
    k = d // value.d
    return value.a * k, value.b * k


# from_gaussian(re, im, d): the Scalar (re + im*i)/d of ints re, im and d > 0
from_gaussian = _reduced


def as_scalar(value):
    """Coerce int, Fraction or Scalar to Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    raise TypeError("cannot interpret %r as a scalar" % (value,))


def _render_frac(p, q):
    g = gcd(p, q)
    return str(p // g) if g == q else "%d/%d" % (p // g, q // g)


_FRAC_RX = r"\d+(?:/\d+)?"
_SCALAR_RX = re.compile(r"^(-)?(%s)(?:(i)|([+-])(%s)i)?$" % (_FRAC_RX, _FRAC_RX))


def _parse_frac(token):
    # (numerator, denominator > 0) of a frac token, not reduced
    num, _, den = token.partition("/")
    try:
        p, q = int(num), int(den or 1)
    except ValueError as exc:  # more digits than int() converts
        raise ScalarParseError("'%s': %s" % (Echo(token), exc)) from None
    if q == 0:
        raise ScalarParseError("zero denominator in '%s'" % Echo(token))
    return p, q


def parse_scalar(text):
    """Parse the scalar grammar; raises ScalarParseError naming the token."""
    if not isinstance(text, str):
        raise ScalarParseError("expected a scalar string, got %r" % Echo(text))
    m = _SCALAR_RX.match(text.strip())
    if m is None:
        raise ScalarParseError("malformed scalar '%s'" % Echo(text))
    sign, first, pure_i, op, second = m.groups()
    p, q = _parse_frac(first)
    if sign:
        p = -p
    if pure_i:
        return _reduced(0, p, q)
    if op is None:
        return _reduced(p, 0, q)
    r, s = _parse_frac(second)
    return _reduced(p * s, (-r if op == "-" else r) * q, q * s)
