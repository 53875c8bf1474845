"""Exact arithmetic in K = Q(r), where r is a primitive 6th root of unity.

r satisfies r^2 = r - 1 (equivalently r^2 - r + 1 = 0, so r + 1/r = 1).
A Scalar stores c0 + c1*r with c0, c1 rational; the norm form
c0^2 + c0*c1 + c1^2 is positive definite over Q, so every nonzero
Scalar is invertible and all arithmetic stays exact.

A coordinate is stored as an int when it is integral and as a Fraction
only when it is not, so the common integral case runs on plain int
arithmetic and the representation of each value is unique.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, ParameterOffCurve

Rational = Fraction
_RATIONAL_TYPES = (int, Fraction)


class Scalar:
    """An element c0 + c1*r of Q(r)."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0=0, c1=0):
        _set_c0(self, c0 if type(c0) is int else _rational(c0))
        _set_c1(self, c1 if type(c1) is int else _rational(c1))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        return Scalar(self.c0 + other.c0, self.c1 + other.c1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        return Scalar(self.c0 - other.c0, self.c1 - other.c1)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Scalar(-self.c0, -self.c1)

    def __mul__(self, other):
        if type(other) is not Scalar:
            if type(other) is int or type(other) is Fraction:
                return Scalar(self.c0 * other, self.c1 * other)
            other = _coerce(other)
        a1, b1 = self.c1, other.c1
        if not a1 and not b1:
            return Scalar(self.c0 * other.c0)
        a0, b0 = self.c0, other.c0
        # (a0 + a1 r)(b0 + b1 r) with r^2 = r - 1
        return Scalar(a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 + a1 * b1)

    __rmul__ = __mul__

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise DivisionByZero("division by zero Scalar")
        # (c0 + c1 r)^-1 = (c0 + c1 - c1 r) / (c0^2 + c0 c1 + c1^2);
        # Fraction, not /, which would give a float on two ints
        return Scalar(Fraction(self.c0 + self.c1, n), Fraction(-self.c1, n))

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def norm(self):
        return self.c0 * self.c0 + self.c0 * self.c1 + self.c1 * self.c1

    # -- comparison / hashing --------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, _RATIONAL_TYPES):
                return NotImplemented
            other = Scalar(other)
        return self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self):
        return hash((self.c0, self.c1)) if self.c1 else hash(self.c0)  # as it equals c0

    def __bool__(self):
        return bool(self.c0) or bool(self.c1)

    # -- formatting ------------------------------------------------------

    def __str__(self):
        if self.c1 == 0:
            return str(self.c0)
        r_part = "r" if self.c1 == 1 else ("-r" if self.c1 == -1 else f"{self.c1}*r")
        if self.c0 == 0:
            return r_part
        sep = "+" if self.c1 > 0 else ""
        return f"{self.c0}{sep}{r_part}"

    def __repr__(self):
        return f"Scalar({self.c0!r}, {self.c1!r})"

    # -- JSON ------------------------------------------------------------

    def to_json(self):
        # str of an int or Fraction is "n" or "n/d"
        return {"c0": str(self.c0), "c1": str(self.c1)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["c0"], obj["c1"])


# the slot setters: __init__ writes through them, past the __setattr__
# that keeps Scalar immutable
_set_c0 = Scalar.c0.__set__
_set_c1 = Scalar.c1.__set__


def _rational(v):
    """The stored form of a coordinate: an int when v is integral, else a
    Fraction.  Accepts int, Fraction and their str forms ("-2/3"); refuses
    float, whose binary value is rarely the rational meant."""
    if type(v) is not Fraction:
        if isinstance(v, float):
            raise TypeError(f"Scalar coordinates must be exact, got float {v!r}")
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _coerce(v):
    if isinstance(v, Scalar):
        return v
    if isinstance(v, _RATIONAL_TYPES):
        return Scalar(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to Scalar")


ZERO = Scalar(0)
ONE = Scalar(1)
R = Scalar(0, 1)


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
    """Rational parametrization of the nodal cubic: t -> (t^2 - 1, t(t^2 - 1))."""
    t = Fraction(t)
    q = t * t - 1
    return CurvePoint(Scalar(q), Scalar(t * q))


def curve_point_validate(q, p) -> CurvePoint:
    """Return CurvePoint(q, p) if p^2 = q^2 + q^3 holds exactly, else raise."""
    q, p = _coerce(q), _coerce(p)
    residual = p * p - q * q - q * q * q
    if residual:
        raise ParameterOffCurve(residual)
    return CurvePoint(q, p)
