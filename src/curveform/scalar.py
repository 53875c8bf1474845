"""Exact arithmetic in K = Q(r), where r is a primitive 6th root of unity.

r satisfies r^2 = r - 1 (equivalently r^2 - r + 1 = 0, so r + 1/r = 1).
A Scalar c0 + c1*r is stored as three ints, (n0 + n1*r)/d with d > 0 and
gcd(n0, n1, d) = 1, so each value has one stored form, and add, mul and
equality run on int arithmetic with at most one gcd per result.  c0 and c1
are read-only views of the coordinates: an int when integral, else a
Fraction.  The norm form c0^2 + c0*c1 + c1^2 is positive definite over Q,
so every nonzero Scalar is invertible and all arithmetic stays exact.

This module is the one home of both coefficient forms, and no other module
reads the slots.  Public polynomials hold Scalars; the reducer and the Hopf
word maps run on the field form: an int when integral, else a Scalar.
Fraction, three times as slow per add or mul, stays at the text boundary
(the views, printing and the parser).  field(c) is the one conversion to
it; reciprocal and denominator are its helpers.

A Scalar is a value: its slots are written once, where it is made, and
never after.  No __setattr__ guards them, since a guard would turn each
plain slot store into a call, on every arithmetic result.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .errors import DivisionByZero, LimitExceeded, ParameterOffCurve

_RATIONAL_TYPES = (int, Fraction)


class Scalar:
    """An element (n0 + n1*r)/d of Q(r), d > 0 and gcd(n0, n1, d) = 1."""

    __slots__ = ("n0", "n1", "d")

    def __init__(self, c0=0, c1=0):
        if type(c0) is int and type(c1) is int:
            self.n0, self.n1, self.d = c0, c1, 1
            return
        c0, c1 = _rational(c0), _rational(c1)
        q0, q1 = c0.denominator, c1.denominator
        d = q0 * q1 // gcd(q0, q1)  # lowest terms in each coordinate give gcd 1
        self.n0, self.n1, self.d = c0.numerator * (d // q0), c1.numerator * (d // q1), d

    @property
    def c0(self):
        """The rational coordinate: an int when integral, else a Fraction."""
        return _view(self.n0, self.d)

    @property
    def c1(self):
        """The coordinate of r: an int when integral, else a Fraction."""
        return _view(self.n1, self.d)

    # -- arithmetic ------------------------------------------------------
    # each result is made here and its slots written in place; a shared
    # constructor helper would cost a call per operation

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        d, e = self.d, other.d
        if d == e:
            n0, n1 = self.n0 + other.n0, self.n1 + other.n1
        else:
            n0, n1, d = self.n0 * e + other.n0 * d, self.n1 * e + other.n1 * d, d * e
        if d != 1:
            g = gcd(n0, n1, d)
            if g != 1:
                n0, n1, d = n0 // g, n1 // g, d // g
        s = _new(Scalar)
        s.n0, s.n1, s.d = n0, n1, d
        return s

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        s = _new(Scalar)
        s.n0, s.n1, s.d = -self.n0, -self.n1, self.d
        return s

    def __mul__(self, other):
        if type(other) is Scalar:
            a0, a1, b0, b1 = self.n0, self.n1, other.n0, other.n1
            d = self.d * other.d
            if a1 or b1:  # (a0 + a1 r)(b0 + b1 r) with r^2 = r - 1
                n0, n1 = a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 + a1 * b1
            else:
                n0, n1 = a0 * b0, 0
        elif type(other) is int or type(other) is Fraction:
            k = other.numerator
            n0, n1, d = self.n0 * k, self.n1 * k, self.d * other.denominator
        else:
            return self * _coerce(other)
        if d != 1:
            g = gcd(n0, n1, d)
            if g != 1:
                n0, n1, d = n0 // g, n1 // g, d // g
        s = _new(Scalar)
        s.n0, s.n1, s.d = n0, n1, d
        return s

    __rmul__ = __mul__

    def inverse(self):
        n0, n1, d = self.n0, self.n1, self.d
        m = n0 * n0 + n0 * n1 + n1 * n1
        if not m:
            raise DivisionByZero("division by zero Scalar")
        # ((n0 + n1 r)/d)^-1 = d (n0 + n1 - n1 r) / m
        n0, n1 = d * (n0 + n1), -d * n1
        g = gcd(n0, n1, m)
        s = _new(Scalar)
        s.n0, s.n1, s.d = n0 // g, n1 // g, m // g
        return s

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def norm(self):
        """c0^2 + c0*c1 + c1^2, a rational: an int when d = 1."""
        n0, n1, d = self.n0, self.n1, self.d
        m = n0 * n0 + n0 * n1 + n1 * n1
        return m if d == 1 else Fraction(m, d * d)

    # -- comparison / hashing --------------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.n0 == other.n0 and self.n1 == other.n1 and self.d == other.d
        if not isinstance(other, _RATIONAL_TYPES):
            return NotImplemented
        return not self.n1 and self.n0 * other.denominator == other.numerator * self.d

    def __hash__(self):
        if self.n1:
            return hash((self.c0, self.c1))
        return hash(self.n0) if self.d == 1 else hash(Fraction(self.n0, self.d))  # as it equals c0

    def __bool__(self):
        return self.n0 != 0 or self.n1 != 0

    # -- formatting ------------------------------------------------------

    def __str__(self):
        c0, c1 = self.c0, self.c1
        if c1 == 0:
            return _text(c0)
        r_part = "r" if c1 == 1 else ("-r" if c1 == -1 else f"{_text(c1)}*r")
        if c0 == 0:
            return r_part
        sep = "+" if c1 > 0 else ""
        return f"{_text(c0)}{sep}{r_part}"

    def __repr__(self):
        return f"Scalar({self.c0!r}, {self.c1!r})"

    def to_json(self):
        # the text of an int or Fraction is "n" or "n/d"
        return {"c0": _text(self.c0), "c1": _text(self.c1)}


_new = object.__new__


def _view(n, d):
    """n/d as an int when integral, else as a Fraction."""
    if d == 1:
        return n
    g = gcd(n, d)
    return n // g if g == d else Fraction(n, d)


def _text(v):
    """str(v) of an int or Fraction, or LimitExceeded where a part has more
    digits than the interpreter converts to text (sys.get_int_max_str_digits)."""
    try:
        return str(v)
    except ValueError:
        raise LimitExceeded(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                            "digits to print") from None


def _rational(v):
    """v as an int or Fraction.  Accepts int, Fraction and their str forms
    ("-2/3"); refuses float, whose binary value is rarely the rational
    meant."""
    if type(v) is int or type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise TypeError(f"Scalar coordinates must be exact, got float {v!r}")
    return Fraction(v)


def _coerce(v):
    if isinstance(v, Scalar):
        return v
    if isinstance(v, _RATIONAL_TYPES):
        return Scalar(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
R = Scalar(0, 1)


# -- the field form --------------------------------------------------------

def field(c):
    """c, an int, Fraction or Scalar, in the field form: an int when
    integral, else a Scalar."""
    if type(c) is Scalar:
        return c.n0 if c.d == 1 and not c.n1 else c
    return c if type(c) is int else field(Scalar(c))


def reciprocal(c):
    """1/c, for c and the result in the field form."""
    return field(_coerce(c).inverse())


def denominator(c):
    """The least n > 0 with n * c integral; for a Scalar, in both coordinates."""
    return c.d if type(c) is Scalar else c.denominator


class CurvePoint:
    """A point (q, p) with p^2 = q^2 + q^3, the parameter of the construction."""

    __slots__ = ("q", "p")

    def __init__(self, q, p):
        object.__setattr__(self, "q", _coerce(q))
        object.__setattr__(self, "p", _coerce(p))

    def __setattr__(self, name, value):
        raise AttributeError("CurvePoint is immutable")

    def __eq__(self, other):
        return isinstance(other, CurvePoint) and self.q == other.q and self.p == other.p

    def __hash__(self):
        return hash((self.q, self.p))

    def __repr__(self):
        return f"CurvePoint({self.q}, {self.p})"

    def to_json(self):
        return {"q": self.q.to_json(), "p": self.p.to_json()}


def curve_point_from_t(t) -> CurvePoint:
    """The rational parametrization of the nodal cubic: t -> (t^2 - 1, t(t^2 - 1))."""
    t = Fraction(t)
    q = t * t - 1
    return CurvePoint(Scalar(q), Scalar(t * q))


def curve_point_validate(q, p) -> CurvePoint:
    """Return CurvePoint(q, p) if p^2 = q^2 + q^3 holds exactly, else raise."""
    q, p = _coerce(q), _coerce(p)
    residual = p * p - q * q - q * q * q
    if residual:
        try:
            shown = f"= {residual}"
        except LimitExceeded:  # too many digits to print: count them, exactly and without text
            from decimal import Decimal  # imported only here, where it is needed
            num, den = (Decimal(v).adjusted() + 1
                        for v in (max(abs(residual.n0), abs(residual.n1)), residual.d))
            shown = f"has a {num}-digit numerator and a {den}-digit denominator"
        raise ParameterOffCurve(residual, shown)
    return CurvePoint(q, p)
