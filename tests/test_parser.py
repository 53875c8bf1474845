import random

import pytest
from hypothesis import given, settings, strategies as st

from curveform.errors import ParseError, UsageError
from curveform.freealg import ALPHABET, NcPoly
from curveform.parser import MAX_LETTERS, MAX_SIZE, MAX_TERMS, parse_expr, parse_product
from curveform.printing import format_poly, format_word
from curveform.scalar import ONE, R, Scalar, curve_point_from_t

PT = curve_point_from_t(2)  # (q, p) = (3, 6)


def test_curve_relation():
    f = parse_expr("y^2 - x^2 - x^3", PT)
    assert f == NcPoly({"yy": ONE, "xx": -ONE, "xxx": -ONE})


def test_inverse_relation():
    f = parse_expr("a*a^-1 - 1", PT)
    assert f == NcPoly({"ag": ONE, "": -ONE})


def test_point_substitution():
    f = parse_expr("3*x - (1+3*q)*a + 1", PT)
    assert f == NcPoly({"x": Scalar(3), "a": Scalar(-10), "": ONE})


def test_r_and_rationals():
    f = parse_expr("1/2*r*x - 2/3", PT)
    assert f == NcPoly({"x": Scalar(0, "1/2"), "": Scalar("-2/3")})


def test_negative_powers_of_a():
    assert parse_expr("a^-3", PT) == NcPoly.word("ggg")
    assert parse_expr("x*a^-2*b", PT) == NcPoly.word("xggb")


def test_parenthesized_power():
    f = parse_expr("(x + y)^2", PT)
    assert f == NcPoly({"xx": ONE, "xy": ONE, "yx": ONE, "yy": ONE})


def test_leading_minus():
    assert parse_expr("-x + x", PT) == NcPoly.zero()


def test_p_substitution():
    assert parse_expr("p", PT) == NcPoly.scalar(Scalar(6))


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x + + y", PT)
        assert exc.value.position == 4

    def test_expected_tokens(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x *", PT)
        assert "x" in exc.value.expected and "(" in exc.value.expected

    def test_negative_power_only_on_a(self):
        with pytest.raises(ParseError):
            parse_expr("x^-1", PT)

    def test_unknown_character(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x + z", PT)
        assert exc.value.position == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(x + y", PT)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("x y", PT)


class TestPrinting:
    def test_format_word_powers(self):
        assert format_word("xxayy") == "x^2*a*y^2"
        assert format_word("gg") == "a^-2"
        assert format_word("") == "1"

    def test_format_poly(self):
        f = NcPoly({"aaa": Scalar(10), "xaa": -ONE})
        assert format_poly(f) == "10*a^3 - x*a^2"

    def test_round_trip_fixed(self):
        for text in ["b*b", "y^2 - x^2 - x^3", "3*x - 10*a + 1",
                     "-a*x*a^-2 - x*a^-1 - a^-1 + 10"]:
            f = parse_expr(text, PT)
            assert parse_expr(format_poly(f), PT) == f

    def test_round_trip_random(self):
        rng = random.Random(7)
        pool = [Scalar(1), Scalar(-1), Scalar("5/3"), R, Scalar(2, -3), Scalar(-2)]
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))
                terms[w] = rng.choice(pool)
            f = NcPoly(terms)
            assert parse_expr(format_poly(f), PT) == f


_ATOM = ("x", "y", "a", "b", "q", "p", "r", "integer", "(")
_AFTER_EXPR = ("+", "-", "*", "end of input")

# (text, message, position, expected) of every malformed ASCII input below
PARSE_ERRORS = [
    ("", "unexpected token 'end of input'", 0, _ATOM),
    ("   ", "unexpected token 'end of input'", 3, _ATOM),
    ("x + z", "unexpected character 'z'", 4, ()),
    ("z", "unexpected character 'z'", 0, ()),
    ("x $ y", "unexpected character '$'", 2, ()),
    ("x^-1", "negative exponent is only allowed on a", 3, ("nonnegative integer",)),
    ("(a)^-1", "negative exponent is only allowed on a", 5, ("nonnegative integer",)),
    ("q^-2", "negative exponent is only allowed on a", 3, ("nonnegative integer",)),
    ("a^-", "unexpected token 'end of input'", 3, ("integer",)),
    ("a^-x", "unexpected token 'x'", 3, ("integer",)),
    ("1/0", "zero denominator", 2, ()),
    ("1/00", "zero denominator", 2, ()),
    ("1/", "unexpected token 'end of input'", 2, ("integer",)),
    ("1/x", "unexpected token 'x'", 2, ("integer",)),
    ("(x + y", "unexpected token 'end of input'", 6, (")",)),
    ("((x)", "unexpected token 'end of input'", 4, (")",)),
    ("(", "unexpected token 'end of input'", 1, _ATOM),
    (")", "unexpected token ')'", 0, _ATOM),
    ("x)", "trailing input ')'", 1, _AFTER_EXPR),
    ("x y", "trailing input 'y'", 2, _AFTER_EXPR),
    ("2 3", "trailing input '3'", 2, _AFTER_EXPR),
    ("a^2^3", "trailing input '^'", 3, _AFTER_EXPR),
    ("r/2", "trailing input '/'", 1, _AFTER_EXPR),
    ("x + ", "unexpected token 'end of input'", 4, _ATOM),
    ("x *", "unexpected token 'end of input'", 3, _ATOM),
    ("x +- y", "unexpected token '-'", 3, _ATOM),
    ("--x", "unexpected token '-'", 1, _ATOM),
    ("x + + y", "unexpected token '+'", 4, _ATOM),
    ("*x", "unexpected token '*'", 0, _ATOM),
    ("x**2", "unexpected token '*'", 2, _ATOM),
    ("x^", "unexpected token 'end of input'", 2, ("integer",)),
    ("x^y", "unexpected token 'y'", 2, ("integer",)),
    ("x^(2)", "unexpected token '('", 2, ("integer",)),
    ("(x+y)^40", "expansion would exceed 10000 terms", 6, ()),
    ("(x+y)^13*(x+y)^13", "expansion would exceed 10000 terms", 8, ()),
    ("(x+y+a)^8*(x+y)", "expansion would exceed 10000 terms", 9, ()),
    # within MAX_TERMS and MAX_LETTERS, beyond MAX_SIZE
    ("(x+y)^13*x^87", "expansion would exceed 120000 letters in all", 8, ()),
    ("(x+y)^11*x^58", "expansion would exceed 120000 letters in all", 8, ()),
    ("(a+b)^12*(x^30+1)", "expansion would exceed 120000 letters in all", 8, ()),
]


class TestTermCap:
    def test_an_expansion_up_to_the_cap_parses(self):
        assert len(parse_expr("(x+y)^13", PT)) == 8192 <= MAX_TERMS
        assert 8192 * 13 <= MAX_SIZE and len(parse_expr("(x+y)^10*x^90", PT)) == 1024
        assert len(parse_expr("(x+y)^6*(x+y)^7", PT)) == 8192

    def test_the_bound_is_checked_per_product(self):
        # x and 1 commute, so the powers of x + 1 stay small
        assert len(parse_expr("(x+1)^40", PT)) == 41
        assert parse_expr("(x+y-x-y)^40", PT) == NcPoly.zero()


class TestLetterCap:
    """MAX_LETTERS bounds the exponent and the letters of each word of an
    expansion; either is refused at the exponent or at the product."""

    @pytest.mark.parametrize("text, word", [("x^{n}", "x"), ("1^{n}", ""), ("a^-{n}", "g")])
    def test_an_exponent_up_to_the_cap_parses(self, text, word):
        assert parse_expr(text.format(n=MAX_LETTERS), PT) == NcPoly.word(word * MAX_LETTERS)

    @pytest.mark.parametrize("text, position", [("x^{n}", 2), ("1^{n}", 2), ("a^-{n}", 3),
                                                ("2*(x-x)^{n}", 8), ("1^300000", 2)])
    def test_a_larger_exponent_is_refused_at_its_position(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_expr(text.format(n=MAX_LETTERS + 1), PT)
        assert exc.value.position == position
        assert str(exc.value) == f"exponent exceeds {MAX_LETTERS} at position {position}"

    @pytest.mark.parametrize("text, position", [("(x^10)^11", 7), ("x^60*y^41", 4),
                                                ("(1+x^51)^2", 9)])
    def test_a_longer_word_is_refused_at_the_product(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, PT)
        assert exc.value.position == position
        assert str(exc.value).startswith(f"expansion would exceed {MAX_LETTERS} letters")

    def test_words_up_to_the_cap_parse(self):
        assert parse_expr("(x^10)^10", PT) == NcPoly.word("x" * 100)
        assert len(parse_expr("(1+x^50)^2", PT)) == 3

    @pytest.mark.parametrize("text, position", [("x^" + "9" * 5000, 2), ("9" * 5000 + "*x", 0),
                                                ("1/" + "7" * 5000, 2)])
    def test_an_integer_beyond_int_conversion_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, PT)
        assert exc.value.position == position


class TestParseProduct:
    def test_the_product_of_the_texts_in_order(self):
        assert parse_product(["x+1", "y", "a^-1"], PT) == parse_expr("(x+1)*y*a^-1", PT)
        assert parse_product(["b"], PT) == NcPoly.word("b")

    @pytest.mark.parametrize("texts, message", [
        (["(x+y)^7", "(x+y)^7"], f"the product up to input 2 would exceed {MAX_TERMS} terms"),
        (["x", "(x+y)^7", "(x+y)^7"], f"the product up to input 3 would exceed {MAX_TERMS} terms"),
        (["x^60", "y^41"], f"the product up to input 2 would exceed {MAX_LETTERS} letters"),
        (["(x+y)^13", "x^87"], f"the product up to input 2 would exceed {MAX_SIZE} letters in all")])
    def test_the_bounds_cover_the_whole_product(self, texts, message):
        with pytest.raises(UsageError) as exc:
            parse_product(texts, PT)
        assert str(exc.value) == message


class TestErrorCorpus:
    @pytest.mark.parametrize("text,message,position,expected", PARSE_ERRORS)
    def test_message_position_and_expected(self, text, message, position, expected):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, PT)
        assert (exc.value.position, exc.value.expected) == (position, expected)
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        assert str(exc.value) == f"{message} at position {position}{suffix}"

    @pytest.mark.parametrize("text,position", [("²", 0), ("x²", 1), ("3 + a^²", 6)])
    def test_a_non_decimal_digit_is_a_stray_character(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, PT)
        assert str(exc.value) == f"unexpected character '²' at position {position}"

    def test_a_decimal_digit_of_any_script_is_an_integer(self):
        assert parse_expr("٣*x", PT) == parse_expr("3*x", PT)
        assert parse_expr("a^-٢", PT) == NcPoly.word("gg")

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="xyabqpr0123456789+-*/^() \t²٣é", max_size=6))
    def test_any_short_text_parses_or_raises_a_parse_error(self, text):
        try:
            assert isinstance(parse_expr(text, PT), NcPoly)
        except ParseError:
            pass


def _poly(terms):
    return NcPoly({w: Scalar(*c) if isinstance(c, tuple) else Scalar(c)
                   for w, c in terms.items()})


# (terms, rendering); a tuple coefficient is (c0, c1) of c0 + c1*r
FORMAT_GOLDEN = [
    ({}, "0"),
    ({"": 1}, "1"),
    ({"": -1}, "-1"),
    ({"": "-3/7"}, "-3/7"),
    ({"x": 1}, "x"),
    ({"x": -1}, "-x"),
    ({"g": 1}, "a^-1"),
    ({"ggg": 1, "": 1}, "a^-3 + 1"),
    ({"agg": 2, "gx": -1}, "2*a*a^-2 - a^-1*x"),
    ({"xxayy": "5/2"}, "5/2*x^2*a*y^2"),
    ({"x": (0, 1)}, "r*x"),
    ({"x": (0, -1)}, "-r*x"),
    ({"": (0, -1)}, "-r"),
    ({"y": (0, "3/2")}, "3/2*r*y"),
    ({"b": (0, "-2/3")}, "-2/3*r*b"),
    ({"a": (1, 1)}, "(1+r)*a"),
    ({"a": (2, -1)}, "(2-r)*a"),
    ({"": ("-1/2", "1/3")}, "(-1/2+1/3*r)"),
    ({"ab": (-1, -1), "ba": ("1/2", 0), "": (0, 2)}, "1/2*b*a + (-1-r)*a*b + 2*r"),
    ({"bbbb": -2, "xg": (3, -4), "gxg": ("-5/3", 0), "": (0, -1)},
     "-2*b^4 - 5/3*a^-1*x*a^-1 + (3-4*r)*x*a^-1 - r"),
    ({"yyy": 1, "xx": -1, "a": "7/4", "": -5}, "y^3 - x^2 + 7/4*a - 5"),
]


class TestFormatCorpus:
    @pytest.mark.parametrize("terms,text", FORMAT_GOLDEN)
    def test_rendering(self, terms, text):
        f = _poly(terms)
        assert format_poly(f) == text
        assert parse_expr(text, PT) == f
