import ast
from fractions import Fraction as StdFraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import curveform
from curveform.errors import DivisionByZero, ParameterOffCurve
from curveform.scalar import (ONE, R, Scalar, ZERO, CurvePoint,
                              curve_point_from_t, curve_point_validate, field)

rationals = st.builds(StdFraction,
                      st.integers(min_value=-10**6, max_value=10**6),
                      st.integers(min_value=1, max_value=10**4))
scalars = st.builds(Scalar, rationals, rationals)


def test_defining_relation_of_r():
    assert R * R == R - ONE


def test_r_plus_r_inverse_is_one():
    assert R + ONE / R == ONE


def test_square_of_two_plus_r():
    # expand 4 + 4r + r^2 and reduce r^2 = r - 1
    assert (Scalar(2) + R) * (Scalar(2) + R) == Scalar(3, 5)


def test_r_inverse_is_one_minus_r():
    assert R.inverse() == ONE - R


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Scalar(1) / ZERO


def test_division_exact():
    s = Scalar(StdFraction(2, 3), StdFraction(-1, 5))
    assert (s / s) == ONE
    assert s * s.inverse() == ONE


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_nonzero_inverse(a):
    if a:
        assert a * a.inverse() == ONE


@given(scalars)
def test_norm_positivity(a):
    # the norm form vanishes only at zero, so division is total on nonzero inputs
    assert (a.norm() == 0) == (not a)


def test_accepts_stdlib_fractions():
    assert Scalar(StdFraction(1, 2)) + Scalar(StdFraction(1, 2)) == ONE


def test_refuses_float():
    with pytest.raises(TypeError):
        Scalar(0.1)
    with pytest.raises(TypeError):
        Scalar(1, 0.5)
    with pytest.raises(TypeError):
        Scalar(1) + 0.5


def test_accepts_rational_strings():
    assert Scalar("1/2", "-3") == Scalar(StdFraction(1, 2), -3)
    assert type(Scalar("4/2").c0) is int


class TestRepresentation:
    """Integral coordinates are stored as int, the others as Fraction."""

    def test_integral_results_are_int(self):
        assert type((Scalar(StdFraction(1, 2)) * 2).c0) is int
        assert type(Scalar(StdFraction(3, 1)).c0) is int
        assert type((Scalar(StdFraction(1, 3), StdFraction(2, 3))
                     + Scalar(StdFraction(2, 3), StdFraction(1, 3))).c1) is int
        assert type(Scalar(StdFraction(1, 2)).c0) is StdFraction

    def test_inverse_is_exact(self):
        inv = Scalar(2).inverse()
        assert type(inv.c0) is StdFraction and inv.c0 == StdFraction(1, 2)
        assert type(inv.c1) is int and inv.c1 == 0
        assert type(Scalar(-1).inverse().c0) is int

    def test_integral_fraction_and_int_agree(self):
        a, b = Scalar(StdFraction(3, 1)), Scalar(3)
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b) == "Scalar(3, 0)"
        assert a.to_json() == b.to_json() == {"c0": "3", "c1": "0"}

    @given(st.lists(st.one_of(st.integers(-50, 50), rationals), min_size=4, max_size=4))
    def test_matches_fraction_reference(self, coords):
        # reference arithmetic on pairs of Fractions, r^2 = r - 1
        a0, a1, b0, b1 = (StdFraction(c) for c in coords)
        a, b = Scalar(coords[0], coords[1]), Scalar(coords[2], coords[3])

        def same(s, ref):
            return (s.c0, s.c1) == ref and all(
                type(c) is (int if c == int(c) else StdFraction) for c in (s.c0, s.c1))

        assert same(a + b, (a0 + b0, a1 + b1))
        assert same(a - b, (a0 - b0, a1 - b1))
        assert same(a * b, (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 + a1 * b1))
        n = a0 * a0 + a0 * a1 + a1 * a1
        if n:
            assert same(a.inverse(), ((a0 + a1) / n, -a1 / n))


# coordinates and operands up to 2^70, past machine words
big_ints = st.integers(-2**70, 2**70)
big_rationals = st.builds(StdFraction, big_ints, st.integers(1, 2**70))
coordinates = st.one_of(st.integers(-50, 50), rationals, big_ints, big_rationals)


def reference(v):
    """v (an int, a Fraction or a pair of coordinates) as a pair of Fractions."""
    return tuple(map(StdFraction, v)) if type(v) is tuple else (StdFraction(v), StdFraction(0))


def ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def ref_neg(a):
    return -a[0], -a[1]


def ref_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0] + a[1] * b[1]


def ref_norm(a):
    return a[0] * a[0] + a[0] * a[1] + a[1] * a[1]


def ref_inverse(a):
    n = ref_norm(a)
    return (a[0] + a[1]) / n, -a[1] / n


def assert_canonical(s, ref):
    """s is the Scalar of the reference pair, in its one stored form, with
    each coordinate view an int when integral and a Fraction otherwise."""
    assert type(s) is Scalar
    assert all(type(n) is int for n in (s.n0, s.n1, s.d))
    assert s.d > 0 and gcd(s.n0, s.n1, s.d) == 1
    assert (s.c0, s.c1) == ref
    for c in (s.c0, s.c1):
        assert type(c) is (int if c.denominator == 1 else StdFraction)


class TestThreeIntForm:
    """A Scalar is (n0 + n1 r)/d with d > 0 and gcd(n0, n1, d) = 1; every
    operation agrees with arithmetic on pairs of Fractions."""

    @given(st.tuples(coordinates, coordinates),
           st.one_of(st.tuples(coordinates, coordinates), big_ints, big_rationals,
                     st.integers(-50, 50)))
    def test_operations_match_the_fraction_pair_reference(self, pair, other):
        a, ra, rb = Scalar(*pair), reference(pair), reference(other)
        b = Scalar(*other) if type(other) is tuple else other
        assert_canonical(a, ra)
        assert_canonical(a + b, ref_add(ra, rb))
        assert_canonical(b + a, ref_add(ra, rb))
        assert_canonical(a - b, ref_add(ra, ref_neg(rb)))
        assert_canonical(b - a, ref_add(rb, ref_neg(ra)))
        assert_canonical(-a, ref_neg(ra))
        assert_canonical(a * b, ref_mul(ra, rb))
        assert_canonical(b * a, ref_mul(ra, rb))
        assert a.norm() == ref_norm(ra)
        if any(ra):
            assert_canonical(a.inverse(), ref_inverse(ra))
            assert_canonical(b / a, ref_mul(rb, ref_inverse(ra)))
        else:
            with pytest.raises(DivisionByZero):
                a.inverse()
        if any(rb):
            assert_canonical(a / b, ref_mul(ra, ref_inverse(rb)))

    @given(st.one_of(big_ints, big_rationals, st.integers(-50, 50)), coordinates)
    def test_equality_and_hash_against_rationals(self, value, c1):
        s = Scalar(value)
        assert s == value and value == s and hash(s) == hash(value)
        assert not s != value
        assert s + 1 != value and value != s + 1
        t = Scalar(value, c1)
        assert (t == value) == (not c1) and (value == t) == (not c1)
        assert hash(t) == (hash((t.c0, t.c1)) if c1 else hash(value))

    @given(big_rationals)
    def test_float_is_refused(self, value):
        s = Scalar(value)
        for op in (lambda: Scalar(0.5), lambda: Scalar(value, 0.25), lambda: s + 0.5,
                   lambda: 0.5 + s, lambda: s - 0.5, lambda: 0.5 - s, lambda: s * 0.5,
                   lambda: 0.5 * s, lambda: s / 0.5):
            with pytest.raises(TypeError):
                op()
        assert s != float(value)

    def test_rational_strings_are_accepted(self):
        s = Scalar("-2/3", "10/4")
        assert_canonical(s, (StdFraction(-2, 3), StdFraction(5, 2)))
        assert (s.n0, s.n1, s.d) == (-4, 15, 6)

    # a pair is a Scalar (one without r-part as often as not), a bare
    # coordinate an int or Fraction; only an integral value leaves as an int
    @given(st.one_of(st.tuples(coordinates, coordinates), st.tuples(coordinates, st.just(0)),
                     coordinates))
    def test_field_form(self, value):
        c = Scalar(*value) if type(value) is tuple else value
        ref = reference(value)
        f = field(c)
        assert f == c
        assert type(f) is (int if ref[0].denominator == 1 and not ref[1] else Scalar)
        assert field(f) is f

    def test_stored_forms(self):
        assert (ZERO.n0, ZERO.n1, ZERO.d) == (0, 0, 1)
        third = Scalar(StdFraction(1, 3), StdFraction(2, 3))
        assert (third.n0, third.n1, third.d) == (1, 2, 3)
        assert ((third * 3).n0, (third * 3).n1, (third * 3).d) == (1, 2, 1)
        zero = third - third
        assert (zero.n0, zero.n1, zero.d) == (0, 0, 1)


@given(st.one_of(st.integers(-10**6, 10**6), rationals))
def test_hash_agrees_with_equality_to_rationals(value):
    # Scalar(2) == 2, so it must hash as 2 and be found under it
    s = Scalar(value)
    assert s == value and hash(s) == hash(value)
    assert {s: "v"}.get(value) == "v" and {value: "v"}.get(s) == "v"


def test_hash_of_r_part_values():
    a = Scalar(StdFraction(1, 2), 3)
    assert hash(a) == hash(Scalar(StdFraction(2, 4), StdFraction(3))) and {a: 1}[Scalar(a.c0, 3)]
    assert a != StdFraction(1, 2) and {a: "v"}.get(StdFraction(1, 2)) is None
    assert {R: "r"}.get(R) == "r" and R not in {0, 1, StdFraction(1, 2)}


def test_json_round_trip():
    # the JSON form of a Scalar is its two coordinates as the constructor reads them
    s = Scalar(StdFraction(-7, 3), StdFraction(22, 5))
    assert Scalar(**s.to_json()) == s
    assert s.to_json() == {"c0": "-7/3", "c1": "22/5"}


class TestCurvePoint:
    def test_from_t_2(self):
        pt = curve_point_from_t(2)
        assert (pt.q, pt.p) == (Scalar(3), Scalar(6))

    def test_from_t_node(self):
        pt = curve_point_from_t(1)
        assert (pt.q, pt.p) == (ZERO, ZERO)

    def test_from_t_0(self):
        pt = curve_point_from_t(0)
        assert (pt.q, pt.p) == (Scalar(-1), ZERO)

    def test_validate_on_curve(self):
        assert curve_point_validate(Scalar(3), Scalar(6)) == CurvePoint(3, 6)
        assert curve_point_validate(ZERO, ZERO) == CurvePoint(0, 0)

    def test_validate_off_curve(self):
        with pytest.raises(ParameterOffCurve) as exc:
            curve_point_validate(Scalar(1), Scalar(1))
        assert exc.value.residual == Scalar(-1)

    @given(rationals)
    def test_parametrization_always_on_curve(self, t):
        pt = curve_point_from_t(StdFraction(t))
        curve_point_validate(pt.q, pt.p)


def test_only_scalar_reads_the_slots():
    # n0, n1 and d are how a Scalar is stored; every other module reads the
    # views c0 and c1 or converts through scalar.field
    package = Path(curveform.__file__).parent
    readers = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
               if path.name != "scalar.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in ("n0", "n1", "d")]
    assert readers == []


def test_fraction_stays_out_of_the_kernel():
    # the reducer and the Hopf word maps run on ints and Scalars
    # (scalar.field); Fraction is left to the text boundary
    package = Path(curveform.__file__).parent
    kernel = ("rewrite.py", "nodal.py", "hopf.py", "galois.py")
    named = [f"{name}:{node.lineno}" for name in kernel
             for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8")))
             if (isinstance(node, ast.Name) and node.id == "Fraction")
             or (isinstance(node, ast.Attribute) and node.attr == "Fraction")
             or (isinstance(node, ast.alias) and node.name in ("Fraction", "fractions"))
             or (isinstance(node, ast.ImportFrom) and node.module == "fractions")]
    assert named == []
